//! Activity-based DRAM energy model.
//!
//! The paper embeds a manufacturer power model into DRAMSim2; its Figure 10
//! result is driven by *traffic*: BOP's +23.4% memory traffic becomes +13.5%
//! memory-system power. This model reproduces that mechanism with
//! DRAMSim2-style per-command energies plus background power:
//!
//! ```text
//! E = n_act·E_actpre + n_rd·E_rd + n_wr·E_wr + n_ref·E_ref + cycles·P_bg
//! ```
//!
//! Row-buffer locality matters: a request that hits an open row skips the
//! activate/precharge energy, which is how an accurate pattern prefetcher
//! (bursting through one page segment per trigger) can *reduce* energy per
//! useful byte even while adding a little traffic.

use core::fmt;

use planaria_common::Cycle;

/// Per-command energies (pJ) and background power (pJ/cycle/channel).
///
/// Values are representative of an LPDDR4-3200 x16 device (per 64 B burst,
/// IO included); they set the *scale* of Figure 10 while the command mix
/// sets its *shape*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// Energy of one activate+precharge pair (charged at ACT).
    pub act_pre_pj: f64,
    /// Energy of one 64 B read burst.
    pub read_pj: f64,
    /// Energy of one 64 B write burst.
    pub write_pj: f64,
    /// Energy of one all-bank refresh.
    pub refresh_pj: f64,
    /// Background (standby + clocking) energy per cycle per channel.
    pub background_pj_per_cycle: f64,
    /// Background multiplier while in CKE power-down (LPDDR parts drop to
    /// a small fraction of active standby).
    pub powerdown_fraction: f64,
}

impl EnergyParams {
    /// Representative LPDDR4 values.
    pub const fn lpddr4() -> Self {
        Self {
            act_pre_pj: 1800.0,
            read_pj: 2000.0,
            write_pj: 2200.0,
            refresh_pj: 28_000.0,
            background_pj_per_cycle: 15.0,
            powerdown_fraction: 0.25,
        }
    }
}

impl Default for EnergyParams {
    fn default() -> Self {
        Self::lpddr4()
    }
}

/// Command counts accumulated by a channel (or summed over channels).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Row activates issued.
    pub n_act: u64,
    /// Precharges issued (including refresh-forced closes).
    pub n_pre: u64,
    /// Column reads issued.
    pub n_rd: u64,
    /// Column reads that serviced a demand-priority request. Counted at
    /// command execution, so a request enqueued before a stats reset but
    /// read after it lands in the post-reset bucket — exactly matching
    /// what `n_rd` itself does across a reset.
    pub n_rd_demand: u64,
    /// Column reads that serviced a prefetch-priority request.
    pub n_rd_prefetch: u64,
    /// Column writes issued.
    pub n_wr: u64,
    /// All-bank refreshes issued.
    pub n_ref: u64,
    /// Cycles spent in CKE power-down (reduced background power).
    pub powerdown_cycles: u64,
    /// Power-down exits (each pays `t_xp` of wake latency).
    pub n_wakeups: u64,
    /// Finish cycle of the last completed request.
    pub last_finish: Cycle,
}

impl DramStats {
    /// Total data-moving requests serviced.
    pub fn requests(&self) -> u64 {
        self.n_rd + self.n_wr
    }

    /// Row-hit rate of column accesses: reads/writes that did not need a
    /// fresh activate. (Approximate: `1 − n_act / (n_rd + n_wr)`.)
    pub fn row_hit_rate(&self) -> f64 {
        let cols = self.requests();
        if cols == 0 {
            0.0
        } else {
            1.0 - (self.n_act.min(cols)) as f64 / cols as f64
        }
    }

    /// Total energy in picojoules over `duration` cycles (per channel, so
    /// the caller multiplies the duration by the channel count when
    /// aggregating, or sums per-channel results).
    pub fn energy_pj(&self, params: &EnergyParams, duration_cycles: u64) -> f64 {
        let pd = self.powerdown_cycles.min(duration_cycles);
        let active = duration_cycles - pd;
        self.n_act as f64 * params.act_pre_pj
            + self.n_rd as f64 * params.read_pj
            + self.n_wr as f64 * params.write_pj
            + self.n_ref as f64 * params.refresh_pj
            + active as f64 * params.background_pj_per_cycle
            + pd as f64 * params.background_pj_per_cycle * params.powerdown_fraction
    }

    /// Merges another channel's counters into this one.
    pub fn merge(&mut self, other: &DramStats) {
        self.n_act += other.n_act;
        self.n_pre += other.n_pre;
        self.n_rd += other.n_rd;
        self.n_rd_demand += other.n_rd_demand;
        self.n_rd_prefetch += other.n_rd_prefetch;
        self.n_wr += other.n_wr;
        self.n_ref += other.n_ref;
        self.powerdown_cycles += other.powerdown_cycles;
        self.n_wakeups += other.n_wakeups;
        self.last_finish = self.last_finish.max(other.last_finish);
    }
}

impl fmt::Display for DramStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ACT {} PRE {} RD {} WR {} REF {} (row-hit {:.1}%)",
            self.n_act,
            self.n_pre,
            self.n_rd,
            self.n_wr,
            self.n_ref,
            self.row_hit_rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_sums_terms() {
        let p = EnergyParams::lpddr4();
        let s = DramStats { n_act: 2, n_rd: 3, n_wr: 1, n_ref: 1, ..DramStats::default() };
        let e = s.energy_pj(&p, 100);
        let expect = 2.0 * p.act_pre_pj
            + 3.0 * p.read_pj
            + p.write_pj
            + p.refresh_pj
            + 100.0 * p.background_pj_per_cycle;
        assert!((e - expect).abs() < 1e-9);
    }

    #[test]
    fn powerdown_cycles_reduce_background_energy() {
        let p = EnergyParams::lpddr4();
        let active = DramStats::default();
        let idle = DramStats { powerdown_cycles: 80, ..DramStats::default() };
        let e_active = active.energy_pj(&p, 100);
        let e_idle = idle.energy_pj(&p, 100);
        assert!(e_idle < e_active, "{e_idle} !< {e_active}");
        let expect = 20.0 * p.background_pj_per_cycle
            + 80.0 * p.background_pj_per_cycle * p.powerdown_fraction;
        assert!((e_idle - expect).abs() < 1e-9);
        // Power-down never exceeds the duration.
        let clamped = DramStats { powerdown_cycles: 500, ..DramStats::default() };
        assert!(clamped.energy_pj(&p, 100) <= e_idle + 1e-9);
    }

    #[test]
    fn row_hit_rate_bounds() {
        let s = DramStats { n_act: 1, n_rd: 4, ..DramStats::default() };
        assert!((s.row_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(DramStats::default().row_hit_rate(), 0.0);
        // More ACTs than columns clamps to zero, not negative.
        let s = DramStats { n_act: 10, n_rd: 4, ..DramStats::default() };
        assert_eq!(s.row_hit_rate(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a =
            DramStats { n_act: 1, n_rd: 2, last_finish: Cycle::new(50), ..DramStats::default() };
        let b =
            DramStats { n_act: 3, n_wr: 4, last_finish: Cycle::new(90), ..DramStats::default() };
        a.merge(&b);
        assert_eq!(a.n_act, 4);
        assert_eq!(a.n_rd, 2);
        assert_eq!(a.n_wr, 4);
        assert_eq!(a.last_finish, Cycle::new(90));
        assert!(!a.to_string().is_empty());
    }
}
