//! Result records produced by a simulation run.

use core::fmt;

/// DRAM traffic split by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficBreakdown {
    /// Reads issued for demand misses.
    pub demand_reads: u64,
    /// Reads issued for prefetches.
    pub prefetch_reads: u64,
    /// Dirty-line writebacks.
    pub writebacks: u64,
}

impl TrafficBreakdown {
    /// Total DRAM requests.
    pub fn total(&self) -> u64 {
        self.demand_reads + self.prefetch_reads + self.writebacks
    }

    /// Relative traffic versus a baseline run (1.0 = equal).
    pub fn relative_to(&self, baseline: &TrafficBreakdown) -> f64 {
        if baseline.total() == 0 {
            return 1.0;
        }
        self.total() as f64 / baseline.total() as f64
    }
}

/// Per-device demand statistics (the SC is shared by CPUs, the GPU and the
/// accelerators; their hit rates and latencies differ).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceStat {
    /// Device label (`planaria_common::DeviceId::label`: "cpu0".."cpu7",
    /// "gpu", "npu", "isp", "dsp").
    pub device: String,
    /// Demand accesses from this device.
    pub accesses: u64,
    /// Demand hits from this device.
    pub hits: u64,
    /// Average memory access time of this device's demands, in cycles.
    pub amat_cycles: f64,
}

impl DeviceStat {
    /// Hit rate of this device (0 when it issued no accesses).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// The full metric record of one (workload × prefetcher) simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Workload label (Table 2 abbreviation).
    pub workload: String,
    /// Prefetcher name.
    pub prefetcher: String,
    /// Demand accesses simulated.
    pub accesses: u64,
    /// SC demand hit rate (Figure 7's metric).
    pub hit_rate: f64,
    /// Average memory access time in cycles (Figure 8's metric).
    pub amat_cycles: f64,
    /// DRAM traffic split (the §1 traffic-overhead numbers).
    pub traffic: TrafficBreakdown,
    /// Prefetched lines that served a demand hit.
    pub useful_prefetches: u64,
    /// Useful prefetches attributed to SLP (Figure 9).
    pub useful_slp: u64,
    /// Useful prefetches attributed to TLP (Figure 9).
    pub useful_tlp: u64,
    /// Demand misses that merged into an in-flight prefetch.
    pub late_prefetches: u64,
    /// Prefetched lines evicted unused.
    pub polluting_prefetches: u64,
    /// useful / prefetch fills.
    pub prefetch_accuracy: f64,
    /// useful / (useful + misses).
    pub prefetch_coverage: f64,
    /// Requests dropped by the cache/in-flight/queue dedup filter.
    pub prefetches_filtered: u64,
    /// Writebacks dropped under extreme queue pressure.
    pub writebacks_dropped: u64,
    /// First-demand-to-last-completion span in cycles.
    pub duration_cycles: u64,
    /// DRAM energy (pJ).
    pub dram_energy_pj: f64,
    /// SC array energy (pJ).
    pub sc_energy_pj: f64,
    /// Prefetcher metadata energy (pJ).
    pub prefetcher_energy_pj: f64,
    /// Total memory-system energy (pJ) — Figure 10's quantity.
    pub total_energy_pj: f64,
    /// Average memory-system power in milliwatts.
    pub power_mw: f64,
    /// DRAM row-buffer hit rate.
    pub dram_row_hit_rate: f64,
    /// Prefetcher metadata storage (bits).
    pub storage_bits: u64,
    /// Demand statistics per device, in `DeviceId::ALL` order (only
    /// devices that issued accesses appear). Summing per-device hits and
    /// accesses reproduces the aggregate [`SimResult::hit_rate`] exactly.
    pub device_stats: Vec<DeviceStat>,
}

impl SimResult {
    /// Header row for [`SimResult::csv_row`].
    pub fn csv_header() -> &'static str {
        "workload,prefetcher,accesses,hit_rate,amat_cycles,demand_reads,prefetch_reads,\
         writebacks,useful_prefetches,useful_slp,useful_tlp,late_prefetches,\
         polluting_prefetches,prefetch_accuracy,prefetch_coverage,duration_cycles,\
         total_energy_pj,power_mw,dram_row_hit_rate,storage_bits"
    }

    /// Serialises the record as one CSV row matching [`SimResult::csv_header`].
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{:.6},{:.3},{},{},{},{},{},{},{},{},{:.6},{:.6},{},{:.1},{:.3},{:.6},{}",
            self.workload,
            self.prefetcher,
            self.accesses,
            self.hit_rate,
            self.amat_cycles,
            self.traffic.demand_reads,
            self.traffic.prefetch_reads,
            self.traffic.writebacks,
            self.useful_prefetches,
            self.useful_slp,
            self.useful_tlp,
            self.late_prefetches,
            self.polluting_prefetches,
            self.prefetch_accuracy,
            self.prefetch_coverage,
            self.duration_cycles,
            self.total_energy_pj,
            self.power_mw,
            self.dram_row_hit_rate,
            self.storage_bits,
        )
    }

    /// Order-stable FNV-1a digest over every field of the record, with
    /// floats hashed by exact bit pattern.
    ///
    /// Two results fingerprint equal iff they are bit-identical, so this
    /// is the cheap currency for cross-run equivalence checks — e.g.
    /// `replay --verify` pins the streamed engine against the materialized
    /// one by comparing fingerprints, and `tests/fingerprints.rs` pins
    /// every prefetcher × app result.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        // Strings are length-prefixed so field boundaries stay unambiguous.
        h.str(&self.workload);
        h.str(&self.prefetcher);
        h.u64(self.accesses);
        h.f64(self.hit_rate);
        h.f64(self.amat_cycles);
        h.u64(self.traffic.demand_reads);
        h.u64(self.traffic.prefetch_reads);
        h.u64(self.traffic.writebacks);
        h.u64(self.useful_prefetches);
        h.u64(self.useful_slp);
        h.u64(self.useful_tlp);
        h.u64(self.late_prefetches);
        h.u64(self.polluting_prefetches);
        h.f64(self.prefetch_accuracy);
        h.f64(self.prefetch_coverage);
        h.u64(self.prefetches_filtered);
        h.u64(self.writebacks_dropped);
        h.u64(self.duration_cycles);
        h.f64(self.dram_energy_pj);
        h.f64(self.sc_energy_pj);
        h.f64(self.prefetcher_energy_pj);
        h.f64(self.total_energy_pj);
        h.f64(self.power_mw);
        h.f64(self.dram_row_hit_rate);
        h.u64(self.storage_bits);
        h.u64(self.device_stats.len() as u64);
        for d in &self.device_stats {
            h.str(&d.device);
            h.u64(d.accesses);
            h.u64(d.hits);
            h.f64(d.amat_cycles);
        }
        h.0
    }

    /// AMAT change versus a baseline run; negative is better
    /// (e.g. `-0.243` reproduces "reduced AMAT by 24.3%").
    pub fn amat_delta(&self, baseline: &SimResult) -> f64 {
        if baseline.amat_cycles == 0.0 {
            return 0.0;
        }
        self.amat_cycles / baseline.amat_cycles - 1.0
    }

    /// Power change versus a baseline run; positive is extra power.
    pub fn power_delta(&self, baseline: &SimResult) -> f64 {
        if baseline.power_mw == 0.0 {
            return 0.0;
        }
        self.power_mw / baseline.power_mw - 1.0
    }

    /// Traffic change versus a baseline run; positive is extra traffic.
    pub fn traffic_delta(&self, baseline: &SimResult) -> f64 {
        self.traffic.relative_to(&baseline.traffic) - 1.0
    }
}

/// Incremental 64-bit FNV-1a (see [`SimResult::fingerprint`]).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

impl fmt::Display for SimResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>5} × {:<18} hit {:>6.2}%  AMAT {:>7.1}  traffic {:>9}  power {:>8.2} mW  \
             acc {:>5.1}%  cov {:>5.1}%",
            self.workload,
            self.prefetcher,
            self.hit_rate * 100.0,
            self.amat_cycles,
            self.traffic.total(),
            self.power_mw,
            self.prefetch_accuracy * 100.0,
            self.prefetch_coverage * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(amat: f64, power: f64, traffic: u64) -> SimResult {
        SimResult {
            workload: "t".into(),
            prefetcher: "x".into(),
            accesses: 100,
            hit_rate: 0.5,
            amat_cycles: amat,
            traffic: TrafficBreakdown { demand_reads: traffic, prefetch_reads: 0, writebacks: 0 },
            useful_prefetches: 0,
            useful_slp: 0,
            useful_tlp: 0,
            late_prefetches: 0,
            polluting_prefetches: 0,
            prefetch_accuracy: 0.0,
            prefetch_coverage: 0.0,
            prefetches_filtered: 0,
            writebacks_dropped: 0,
            duration_cycles: 1000,
            dram_energy_pj: 0.0,
            sc_energy_pj: 0.0,
            prefetcher_energy_pj: 0.0,
            total_energy_pj: 0.0,
            power_mw: power,
            dram_row_hit_rate: 0.0,
            storage_bits: 0,
            device_stats: Vec::new(),
        }
    }

    #[test]
    fn deltas_are_signed_fractions() {
        let base = result(100.0, 50.0, 1000);
        let better = result(75.7, 50.25, 1010);
        assert!((better.amat_delta(&base) + 0.243).abs() < 1e-9);
        assert!((better.power_delta(&base) - 0.005).abs() < 1e-9);
        assert!((better.traffic_delta(&base) - 0.01).abs() < 1e-9);
    }

    #[test]
    fn zero_baselines_are_safe() {
        let zero = result(0.0, 0.0, 0);
        let x = result(10.0, 10.0, 10);
        assert_eq!(x.amat_delta(&zero), 0.0);
        assert_eq!(x.power_delta(&zero), 0.0);
        assert_eq!(x.traffic_delta(&zero), 0.0);
    }

    #[test]
    fn device_stat_hit_rate() {
        let d = DeviceStat { device: "gpu".into(), accesses: 10, hits: 4, amat_cycles: 50.0 };
        assert!((d.hit_rate() - 0.4).abs() < 1e-12);
        let z = DeviceStat { device: "npu".into(), accesses: 0, hits: 0, amat_cycles: 0.0 };
        assert_eq!(z.hit_rate(), 0.0);
    }

    #[test]
    fn csv_row_matches_header_width() {
        let r = result(10.0, 5.0, 100);
        let header_cols = SimResult::csv_header().split(',').count();
        let row_cols = r.csv_row().split(',').count();
        assert_eq!(header_cols, row_cols);
        assert!(r.csv_row().starts_with("t,x,100,"));
    }

    #[test]
    fn fingerprint_is_stable_and_field_sensitive() {
        let a = result(10.0, 5.0, 100);
        assert_eq!(a.fingerprint(), a.fingerprint(), "digest must be deterministic");
        let mut float_tweak = a.clone();
        float_tweak.hit_rate = f64::from_bits(float_tweak.hit_rate.to_bits() ^ 1);
        assert_ne!(a.fingerprint(), float_tweak.fingerprint(), "1-ulp float change must show");
        let mut label_tweak = a.clone();
        label_tweak.workload = "u".into();
        assert_ne!(a.fingerprint(), label_tweak.fingerprint());
        let mut device_tweak = a.clone();
        device_tweak.device_stats.push(DeviceStat {
            device: "gpu".into(),
            accesses: 1,
            hits: 1,
            amat_cycles: 30.0,
        });
        assert_ne!(a.fingerprint(), device_tweak.fingerprint());
    }

    #[test]
    fn traffic_total() {
        let t = TrafficBreakdown { demand_reads: 5, prefetch_reads: 3, writebacks: 2 };
        assert_eq!(t.total(), 10);
        assert!(!result(1.0, 1.0, 1).to_string().is_empty());
    }
}
