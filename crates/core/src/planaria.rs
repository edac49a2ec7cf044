//! The Planaria coordinator: "parallel training, serial issuing".
//!
//! Prior hybrid prefetchers treat each sub-prefetcher as a monolith —
//! either serially enabling whole prefetchers (TPC) or running them fully in
//! parallel (ISB/MISB). Planaria's coordinator instead **decouples** each
//! sub-prefetcher into a learning phase and an issuing phase and manages
//! them separately:
//!
//! * *learning* of **both** SLP and TLP runs on **every** demand access, so
//!   each sub-prefetcher always observes the complete access sequence
//!   ("full-pattern directed");
//! * *issuing* is enabled for exactly **one** sub-prefetcher per trigger:
//!   SLP preferentially, and TLP only when SLP has no history (no PT entry)
//!   for the page — trading a little coverage for much higher accuracy,
//!   which is what the mobile power budget demands.

use planaria_common::{MemAccess, PrefetchRequest, NUM_CHANNELS};
use planaria_telemetry::{
    ArbitrationWinner, EventData, EventKind, Telemetry, TelemetryConfig, TelemetryReport,
};

use crate::slp::ChannelSlp;
use crate::tlp::ChannelTlp;
use crate::traits::Prefetcher;
use crate::{SlpConfig, TlpConfig};

/// Configuration of the full composite prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanariaConfig {
    /// Intra-page sub-prefetcher sizing.
    pub slp: SlpConfig,
    /// Inter-page sub-prefetcher sizing.
    pub tlp: TlpConfig,
    /// Enable SLP's issuing phase (learning always runs).
    pub enable_slp_issue: bool,
    /// Enable TLP's issuing phase (learning always runs).
    pub enable_tlp_issue: bool,
    /// Ablation: issue from *both* sub-prefetchers on every trigger (the
    /// "parallel coordinator" of ISB/MISB-style hybrids) instead of
    /// Planaria's serial selection. Higher coverage, lower accuracy —
    /// the trade-off the paper's coordinator design avoids.
    pub parallel_issue: bool,
    /// Maximum prefetches issued per trigger (degree throttle). A 16-bit
    /// segment bitmap bounds any burst at 15, so the default of 16 is
    /// effectively unthrottled; smaller values trade coverage for traffic.
    pub max_degree: usize,
}

impl Default for PlanariaConfig {
    fn default() -> Self {
        Self {
            slp: SlpConfig::default(),
            tlp: TlpConfig::default(),
            enable_slp_issue: true,
            enable_tlp_issue: true,
            parallel_issue: false,
            max_degree: 16,
        }
    }
}

impl PlanariaConfig {
    /// Figure 9's "SLP contribution" ablation: TLP learns but never issues.
    #[must_use]
    pub fn slp_only(mut self) -> Self {
        self.enable_slp_issue = true;
        self.enable_tlp_issue = false;
        self
    }

    /// Figure 9's "TLP contribution" ablation: SLP learns but never issues.
    #[must_use]
    pub fn tlp_only(mut self) -> Self {
        self.enable_slp_issue = false;
        self.enable_tlp_issue = true;
        self
    }

    /// The parallel-coordinator ablation: both sub-prefetchers issue on
    /// every trigger.
    #[must_use]
    pub fn parallel(mut self) -> Self {
        self.enable_slp_issue = true;
        self.enable_tlp_issue = true;
        self.parallel_issue = true;
        self
    }
}

struct ChannelPlanaria {
    slp: ChannelSlp,
    tlp: ChannelTlp,
}

/// The composite Planaria prefetcher (one coordinator per DRAM channel).
///
/// See the crate docs for an end-to-end example.
pub struct Planaria {
    cfg: PlanariaConfig,
    name: String,
    channels: Vec<ChannelPlanaria>,
    tel: Telemetry,
}

impl Planaria {
    /// Creates the four-channel composite prefetcher.
    pub fn new(cfg: PlanariaConfig) -> Self {
        let name = match (cfg.enable_slp_issue, cfg.enable_tlp_issue) {
            (true, true) if cfg.parallel_issue => "Planaria(parallel)".to_string(),
            (true, true) => "Planaria".to_string(),
            (true, false) => "Planaria(SLP-only)".to_string(),
            (false, true) => "Planaria(TLP-only)".to_string(),
            (false, false) => "Planaria(learn-only)".to_string(),
        };
        Self {
            channels: (0..NUM_CHANNELS)
                .map(|s| ChannelPlanaria {
                    slp: ChannelSlp::new_for_segment(&cfg.slp, s),
                    tlp: ChannelTlp::new_for_segment(&cfg.tlp, s),
                })
                .collect(),
            cfg,
            name,
            tel: Telemetry::counting_only(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PlanariaConfig {
        &self.cfg
    }
}

impl Default for Planaria {
    fn default() -> Self {
        Self::new(PlanariaConfig::default())
    }
}

impl Planaria {
    /// The per-access coordinator step, shared verbatim by the single and
    /// batched [`Prefetcher`] entry points so the two can never diverge.
    #[inline]
    fn step(&mut self, access: &MemAccess, hit: bool, out: &mut Vec<PrefetchRequest>) {
        let ch = access.addr.channel().as_usize();
        let page = access.addr.page().as_u64();
        let offset = access.addr.block_index().index_in_segment();
        let now = access.cycle;
        let c = &mut self.channels[ch];
        let tel = &mut self.tel;

        // Learning phase: both sub-prefetchers see every access.
        c.slp.learn(page, offset, now, tel);
        c.tlp.learn(page, offset, now, tel);

        // Issuing phase: serial selection, only on a demand miss.
        if hit {
            return;
        }
        let slp_has_pattern = c.slp.has_pattern(page);
        let winner = if self.cfg.parallel_issue {
            match (self.cfg.enable_slp_issue, self.cfg.enable_tlp_issue) {
                (true, true) => ArbitrationWinner::Both,
                (true, false) => ArbitrationWinner::Slp,
                (false, true) => ArbitrationWinner::Tlp,
                (false, false) => ArbitrationWinner::None,
            }
        } else if self.cfg.enable_slp_issue && slp_has_pattern {
            ArbitrationWinner::Slp
        } else if self.cfg.enable_tlp_issue {
            ArbitrationWinner::Tlp
        } else {
            ArbitrationWinner::None
        };
        let kind = match winner {
            ArbitrationWinner::Slp => EventKind::ArbitrationSlp,
            ArbitrationWinner::Tlp => EventKind::ArbitrationTlp,
            ArbitrationWinner::Both => EventKind::ArbitrationBoth,
            ArbitrationWinner::None => EventKind::ArbitrationNone,
        };
        tel.emit(kind, now, ch as u8, || EventData::Arbitration { page, winner, slp_has_pattern });

        let before = out.len();
        if self.cfg.parallel_issue {
            // Ablation: the parallel coordinator lets every sub-prefetcher
            // issue on every trigger.
            if self.cfg.enable_slp_issue {
                c.slp.issue(page, offset, now, out, tel);
            }
            if self.cfg.enable_tlp_issue {
                c.tlp.issue(page, offset, now, out, tel);
            }
            out.truncate(before + self.cfg.max_degree);
            return;
        }
        // The selection rule prefers SLP whenever it has history for the
        // page, even if that history yields no new blocks to prefetch —
        // TLP is strictly the "no SLP metadata" fallback.
        match winner {
            ArbitrationWinner::Slp => c.slp.issue(page, offset, now, out, tel),
            ArbitrationWinner::Tlp => c.tlp.issue(page, offset, now, out, tel),
            _ => {}
        }
        out.truncate(before + self.cfg.max_degree);
    }
}

impl Prefetcher for Planaria {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_access(&mut self, access: &MemAccess, hit: bool, out: &mut Vec<PrefetchRequest>) {
        self.step(access, hit, out);
    }

    fn on_batch(&mut self, batch: &[(MemAccess, bool)], out: &mut Vec<PrefetchRequest>) {
        // One virtual dispatch for the whole chunk; the inner loop is a
        // direct (inlined) call into the coordinator step.
        for (access, hit) in batch {
            self.step(access, *hit, out);
        }
    }

    fn storage_bits(&self) -> u64 {
        crate::storage::planaria_bits(&self.cfg)
    }

    fn table_accesses(&self) -> u64 {
        self.channels.iter().map(|c| c.slp.table_accesses() + c.tlp.accesses).sum()
    }

    fn configure_telemetry(&mut self, cfg: &TelemetryConfig) {
        self.tel = Telemetry::from_config(cfg);
    }

    fn telemetry(&self) -> Option<&Telemetry> {
        Some(&self.tel)
    }

    fn telemetry_report(&mut self) -> Option<TelemetryReport> {
        Some(self.tel.report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planaria_common::{BlockIndex, Cycle, PageNum, PhysAddr, PrefetchOrigin};

    fn access(page: u64, block: usize, cycle: u64) -> MemAccess {
        MemAccess::read(
            PhysAddr::from_parts(PageNum::new(page), BlockIndex::new(block)),
            Cycle::new(cycle),
        )
    }

    fn touch(pf: &mut Planaria, page: u64, blocks: &[usize], t0: u64) -> Vec<PrefetchRequest> {
        let mut out = Vec::new();
        for (i, &b) in blocks.iter().enumerate() {
            pf.on_access(&access(page, b, t0 + 10 * i as u64), false, &mut out);
        }
        out
    }

    #[test]
    fn slp_issues_for_pages_with_history() {
        let mut pf = Planaria::default();
        touch(&mut pf, 42, &[0, 3, 5, 7], 0);
        let out = touch(&mut pf, 42, &[3], 10_000);
        assert!(!out.is_empty());
        assert!(out.iter().all(|r| r.origin == PrefetchOrigin::Slp));
    }

    #[test]
    fn tlp_issues_for_history_less_neighbour_pages() {
        let mut pf = Planaria::default();
        // Page 100 gets visited once; page 101 has no SLP history.
        touch(&mut pf, 100, &[0, 2, 4, 6, 8], 0);
        let out = touch(&mut pf, 101, &[0, 2, 4, 6], 500);
        assert!(!out.is_empty());
        assert!(out.iter().all(|r| r.origin == PrefetchOrigin::Tlp));
    }

    #[test]
    fn slp_preferred_over_tlp_once_history_exists() {
        let mut pf = Planaria::default();
        // Page 100 visited fully and timed out into the PT.
        touch(&mut pf, 100, &[0, 2, 4, 6, 8], 0);
        // Long gap -> SLP pattern exists for page 100 now.
        let out = touch(&mut pf, 100, &[0, 2, 4, 6], 50_000);
        assert!(out.iter().all(|r| r.origin == PrefetchOrigin::Slp), "{out:?}");
    }

    #[test]
    fn slp_only_config_silences_tlp() {
        let mut pf = Planaria::new(PlanariaConfig::default().slp_only());
        assert_eq!(pf.name(), "Planaria(SLP-only)");
        touch(&mut pf, 100, &[0, 2, 4, 6, 8], 0);
        let out = touch(&mut pf, 101, &[0, 2, 4, 6], 500);
        assert!(out.is_empty(), "TLP issuing disabled");
    }

    #[test]
    fn tlp_only_config_silences_slp() {
        let mut pf = Planaria::new(PlanariaConfig::default().tlp_only());
        assert_eq!(pf.name(), "Planaria(TLP-only)");
        touch(&mut pf, 42, &[0, 3, 5, 7], 0);
        let out = touch(&mut pf, 42, &[3], 10_000);
        assert!(out.iter().all(|r| r.origin == PrefetchOrigin::Tlp), "{out:?}");
    }

    #[test]
    fn no_issuing_on_hits() {
        let mut pf = Planaria::default();
        touch(&mut pf, 42, &[0, 3, 5, 7], 0);
        let mut out = Vec::new();
        pf.on_access(&access(42, 3, 10_000), true, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn learning_always_runs_even_with_issuing_disabled() {
        // TLP learned page 100 while TLP issuing was off; flipping to the
        // full config immediately benefits from that learned state.
        let mut pf = Planaria::new(PlanariaConfig {
            enable_slp_issue: false,
            enable_tlp_issue: false,
            ..PlanariaConfig::default()
        });
        touch(&mut pf, 100, &[0, 2, 4, 6, 8], 0);
        assert!(touch(&mut pf, 101, &[0, 2, 4, 6], 500).is_empty());
        assert!(pf.table_accesses() > 0, "both learners observed the stream");
    }

    #[test]
    fn parallel_mode_issues_from_both() {
        let cfg = PlanariaConfig {
            tlp: TlpConfig { entries: 4, ..TlpConfig::default() },
            ..PlanariaConfig::default()
        }
        .parallel();
        let mut pf = Planaria::new(cfg);
        assert_eq!(pf.name(), "Planaria(parallel)");
        // Page 100 trains SLP; page 101 leaves a matching RPT donor.
        touch(&mut pf, 100, &[0, 2, 4, 6, 8], 0);
        touch(&mut pf, 101, &[0, 2, 4, 6, 8], 50_000);
        // Far pages churn page 100 out of the tiny RPT (so its re-allocated
        // entry starts with an incomplete bitmap, leaving TLP work to do).
        for (i, p) in [2000u64, 3000, 4000].into_iter().enumerate() {
            touch(&mut pf, p, &[0], 60_000 + i as u64 * 100);
        }
        // Keep the donor (101) warm so the next allocation evicts a far
        // page instead of it.
        touch(&mut pf, 101, &[4], 70_000);
        // Page 100 revisited: SLP has a pattern AND neighbour 101 overlaps
        // the freshly accumulated bits — in parallel mode both fire.
        let out = touch(&mut pf, 100, &[0, 2], 100_000);
        let origins: std::collections::BTreeSet<_> = out.iter().map(|r| r.origin).collect();
        assert!(origins.contains(&PrefetchOrigin::Slp), "{origins:?}");
        assert!(origins.contains(&PrefetchOrigin::Tlp), "{origins:?}");
    }

    #[test]
    fn degree_throttle_caps_burst_size() {
        let mut full = Planaria::default();
        let mut throttled =
            Planaria::new(PlanariaConfig { max_degree: 2, ..PlanariaConfig::default() });
        let blocks = [0usize, 2, 4, 6, 8, 10, 12, 14];
        for pf in [&mut full, &mut throttled] {
            touch(pf, 42, &blocks, 0);
        }
        let full_out = touch(&mut full, 42, &[0], 50_000);
        let throttled_out = touch(&mut throttled, 42, &[0], 50_000);
        assert!(full_out.len() > 2, "{}", full_out.len());
        assert_eq!(throttled_out.len(), 2);
        // The throttled burst is a prefix of the full burst.
        assert_eq!(&full_out[..2], &throttled_out[..]);
    }

    #[test]
    fn storage_matches_component_sum() {
        let pf = Planaria::default();
        let slp = crate::Slp::default();
        let tlp = crate::Tlp::default();
        assert_eq!(pf.storage_bits(), slp.storage_bits() + tlp.storage_bits());
    }
}
