//! Small numeric helpers: span accumulators, CPU-time stopwatches,
//! medians and quantiles, exact weighted quantiles and an order-sensitive
//! 64-bit hash for replay outputs.

use std::collections::BTreeMap;
use std::time::Instant;

/// Wall-clock time spent inside one layer, accumulated over the calls the
/// benchmark made into it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Total nanoseconds inside the spans.
    pub ns: u64,
    /// Number of spans recorded.
    pub calls: u64,
}

impl Span {
    /// Closes a span opened at `t0`.
    pub fn close(&mut self, t0: Instant) {
        self.ns += elapsed_ns(t0);
        self.calls += 1;
    }

    /// Adds another accumulator into this one.
    pub fn absorb(&mut self, other: Span) {
        self.ns += other.ns;
        self.calls += other.calls;
    }
}

/// Nanoseconds since `t0`, saturated into a `u64`.
pub fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// CPU time the calling thread has run, in nanoseconds: the first field
/// of `/proc/thread-self/schedstat`. Time the thread spent waiting for a
/// CPU does not count, and neither does time the hypervisor gave the
/// vCPU to another guest (steal). `None` where the kernel does not report
/// it.
///
/// The kernel brings that count up to date only at scheduler events, so
/// on its own it lags by up to a tick (4 ms at `HZ=250`). Reading
/// `/proc/self/stat` first makes the kernel account the calling thread's
/// pending run time (`thread_group_cputime`), which makes the reading
/// exact to a few microseconds.
pub fn thread_cpu_ns() -> Option<u64> {
    std::fs::read("/proc/self/stat").ok()?;
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// Wall and CPU time of one timed region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// CPU seconds of the threads that did the region's work.
    pub cpu_s: f64,
}

/// Times a region on the calling thread, by the wall clock and by the
/// thread's CPU clock.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu_ns: u64,
}

impl Stopwatch {
    /// Starts timing.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not report thread CPU time (see
    /// [`thread_cpu_ns`]): the benchmark needs Linux with `CONFIG_SCHED_INFO`.
    pub fn start() -> Self {
        let cpu_ns = thread_cpu_ns().expect("/proc/thread-self/schedstat is readable");
        Self { wall: Instant::now(), cpu_ns }
    }

    /// The time since [`Stopwatch::start`], plus `other_cpu_ns` of CPU
    /// time that other threads spent on the region's work.
    pub fn stop_with(&self, other_cpu_ns: u64) -> Timed {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let now = thread_cpu_ns().expect("/proc/thread-self/schedstat is readable");
        let cpu_ns = now.saturating_sub(self.cpu_ns) + other_cpu_ns;
        Timed { wall_s, cpu_s: cpu_ns as f64 / 1e9 }
    }

    /// The time since [`Stopwatch::start`].
    pub fn stop(&self) -> Timed {
        self.stop_with(0)
    }
}

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values`, interpolated linearly between the two
/// nearest order statistics: rank `q × (n − 1)` of the sorted values.
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN, or if `q` is outside
/// `0.0..=1.0`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let rank = q * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Per-metric median over the traced passes.
pub fn median_by_name(runs: &[BTreeMap<&'static str, f64>]) -> Vec<(&'static str, f64)> {
    let Some(first) = runs.first() else { return Vec::new() };
    first
        .keys()
        .map(|&name| {
            let values: Vec<f64> = runs.iter().filter_map(|m| m.get(name).copied()).collect();
            (name, median(&values))
        })
        .collect()
}

/// The `q`-quantile of weighted samples `(value, weight)`: the smallest
/// value whose cumulative weight reaches `ceil(q × total weight)` (at
/// least 1). It is exact — no bucketing — and always returns one of the
/// sample values. Zero-weight samples never count.
///
/// Returns `None` when the total weight is zero.
///
/// # Panics
///
/// Panics if `q` is outside `0.0..=1.0` or a value is NaN.
pub fn weighted_quantile(samples: &[(f64, u64)], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let total: u64 = samples.iter().map(|&(_, w)| w).sum();
    if total == 0 {
        return None;
    }
    let mut sorted: Vec<(f64, u64)> = samples.iter().copied().filter(|&(_, w)| w > 0).collect();
    sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN samples"));
    // Integer rank: the q-th fraction of the total weight, rounded up.
    let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (value, weight) in sorted {
        seen += weight;
        if seen >= rank {
            return Some(value);
        }
    }
    unreachable!("cumulative weight reaches the total")
}

/// Order-sensitive 64-bit digest of a word sequence (SplitMix64 finaliser
/// per word). Used to fingerprint replay outputs and fold session results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes one word into the digest.
    pub fn word(&mut self, w: u64) {
        let mut z = (self.0 ^ w).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }

    /// The digest as `0x` + 16 hex digits.
    pub fn hex(self) -> String {
        hex(self.0)
    }
}

/// Formats a 64-bit value as `0x` + 16 hex digits.
pub fn hex(v: u64) -> String {
    format!("{v:#018x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [40.0, 10.0, 30.0, 20.0, 50.0];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 0.25), 20.0); // rank 1
        assert_eq!(quantile(&v, 0.5), 30.0);
        assert_eq!(quantile(&v, 0.375), 25.0); // rank 1.5
        assert_eq!(quantile(&v, 1.0), 50.0);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.25), 1.75); // rank 0.75
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
    }

    #[test]
    fn weighted_quantile_is_exact_on_hand_made_samples() {
        // Ten decisions: four at 10 ns, one at 20 ns, five at 30 ns.
        let samples = [(30.0, 5), (10.0, 4), (20.0, 1)];
        assert_eq!(weighted_quantile(&samples, 0.0), Some(10.0));
        assert_eq!(weighted_quantile(&samples, 0.4), Some(10.0)); // rank 4
        assert_eq!(weighted_quantile(&samples, 0.41), Some(20.0)); // rank 5
        assert_eq!(weighted_quantile(&samples, 0.5), Some(20.0)); // rank 5
        assert_eq!(weighted_quantile(&samples, 0.51), Some(30.0)); // rank 6
        assert_eq!(weighted_quantile(&samples, 0.99), Some(30.0));
        assert_eq!(weighted_quantile(&samples, 1.0), Some(30.0));
    }

    #[test]
    fn weighted_quantile_p99_needs_the_tail_weight() {
        // 99 decisions at 1 ns and one at 1000 ns: p99 is still 1 ns, the
        // maximum only shows at q > 0.99.
        let samples = [(1.0, 99), (1000.0, 1)];
        assert_eq!(weighted_quantile(&samples, 0.99), Some(1.0));
        assert_eq!(weighted_quantile(&samples, 0.995), Some(1000.0));
    }

    #[test]
    fn weighted_quantile_ignores_zero_weights_and_empty_input() {
        assert_eq!(weighted_quantile(&[], 0.5), None);
        assert_eq!(weighted_quantile(&[(7.0, 0)], 0.5), None);
        assert_eq!(weighted_quantile(&[(1.0, 0), (7.0, 2), (9.0, 0)], 0.0), Some(7.0));
        assert_eq!(weighted_quantile(&[(1.0, 0), (7.0, 2), (9.0, 0)], 1.0), Some(7.0));
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.word(1);
        a.word(2);
        let mut b = Digest::default();
        b.word(2);
        b.word(1);
        assert_ne!(a, b);
        assert_eq!(a.hex().len(), 18);
    }
}
