//! The prefetcher catalogue and one-call runners for (application ×
//! prefetcher) cells with Table 1 defaults.
//!
//! [`PrefetcherKind`] names every configuration the figures compare.
//! Grids of cells run on the parallel [`crate::runner::Runner`], which
//! every figure harness in `planaria-bench` uses.

use core::fmt;

use planaria_baselines::{Bop, NextLine, Spp, StridePf};
use planaria_core::{NullPrefetcher, Planaria, PlanariaConfig, Prefetcher, Slp, Tlp};
use planaria_trace::apps::{self, AppId};
use planaria_trace::Trace;

use crate::{MemorySystem, SimResult, SystemConfig};

/// Selects a prefetcher configuration for an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetcherKind {
    /// No prefetcher (the paper's baseline system).
    None,
    /// Next-line reference.
    NextLine,
    /// PC-free per-page stride reference.
    Stride,
    /// Best-Offset Prefetching (HPCA'16).
    Bop,
    /// Signature Path Prefetcher (MICRO'16).
    Spp,
    /// SLP alone (intra-page sub-prefetcher).
    SlpOnly,
    /// TLP alone (inter-page sub-prefetcher).
    TlpOnly,
    /// Full Planaria (SLP + TLP + coordinator).
    Planaria,
    /// Planaria with TLP issuing disabled (Figure 9 ablation).
    PlanariaSlpIssue,
    /// Planaria with SLP issuing disabled (Figure 9 ablation).
    PlanariaTlpIssue,
    /// Planaria with the parallel coordinator (both issue every trigger).
    PlanariaParallel,
    /// Full Planaria with fleet-scale table sizing: the same SLP + TLP +
    /// coordinator pipeline, but with 52x less metadata storage (6,760 B
    /// vs 353,344 B) so hundreds of thousands of concurrently *served*
    /// device instances fit in memory (`planaria-serve`'s `serve_load` harness). Not a figure
    /// configuration — headline results always use [`Self::Planaria`].
    PlanariaLean,
}

impl PrefetcherKind {
    /// Every configuration, in declaration order.
    pub const ALL: [PrefetcherKind; 12] = [
        PrefetcherKind::None,
        PrefetcherKind::NextLine,
        PrefetcherKind::Stride,
        PrefetcherKind::Bop,
        PrefetcherKind::Spp,
        PrefetcherKind::SlpOnly,
        PrefetcherKind::TlpOnly,
        PrefetcherKind::Planaria,
        PrefetcherKind::PlanariaSlpIssue,
        PrefetcherKind::PlanariaTlpIssue,
        PrefetcherKind::PlanariaParallel,
        PrefetcherKind::PlanariaLean,
    ];

    /// The four configurations of Figures 7, 8 and 10.
    pub const FIGURE_SET: [PrefetcherKind; 4] =
        [PrefetcherKind::None, PrefetcherKind::Bop, PrefetcherKind::Spp, PrefetcherKind::Planaria];

    /// Builds a fresh prefetcher instance.
    pub fn build(self) -> Box<dyn Prefetcher> {
        match self {
            PrefetcherKind::None => Box::new(NullPrefetcher::new()),
            PrefetcherKind::NextLine => Box::new(NextLine::new()),
            PrefetcherKind::Stride => Box::new(StridePf::default()),
            PrefetcherKind::Bop => Box::new(Bop::default()),
            PrefetcherKind::Spp => Box::new(Spp::default()),
            PrefetcherKind::SlpOnly => Box::new(Slp::default()),
            PrefetcherKind::TlpOnly => Box::new(Tlp::default()),
            PrefetcherKind::Planaria => Box::new(Planaria::default()),
            PrefetcherKind::PlanariaSlpIssue => {
                Box::new(Planaria::new(PlanariaConfig::default().slp_only()))
            }
            PrefetcherKind::PlanariaTlpIssue => {
                Box::new(Planaria::new(PlanariaConfig::default().tlp_only()))
            }
            PrefetcherKind::PlanariaParallel => {
                Box::new(Planaria::new(PlanariaConfig::default().parallel()))
            }
            PrefetcherKind::PlanariaLean => {
                let mut cfg = PlanariaConfig::default();
                cfg.slp.ft_entries = 16;
                cfg.slp.at_entries = 32;
                cfg.slp.pt_entries = 128;
                cfg.tlp.entries = 32;
                Box::new(Planaria::new(cfg))
            }
        }
    }

    /// The label used in tables and figures.
    pub fn label(self) -> &'static str {
        match self {
            PrefetcherKind::None => "None",
            PrefetcherKind::NextLine => "NextLine",
            PrefetcherKind::Stride => "Stride",
            PrefetcherKind::Bop => "BOP",
            PrefetcherKind::Spp => "SPP",
            PrefetcherKind::SlpOnly => "SLP",
            PrefetcherKind::TlpOnly => "TLP",
            PrefetcherKind::Planaria => "Planaria",
            PrefetcherKind::PlanariaSlpIssue => "Planaria(SLP)",
            PrefetcherKind::PlanariaTlpIssue => "Planaria(TLP)",
            PrefetcherKind::PlanariaParallel => "Planaria(parallel)",
            PrefetcherKind::PlanariaLean => "Planaria(lean)",
        }
    }

    /// The kind whose [`label`](Self::label) matches `label`, ignoring
    /// ASCII case and surrounding whitespace.
    pub fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.label().eq_ignore_ascii_case(label.trim()))
    }
}

impl fmt::Display for PrefetcherKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Runs one prefetcher over one prepared trace with Table 1 defaults.
pub fn run_trace(trace: &Trace, kind: PrefetcherKind) -> SimResult {
    MemorySystem::new(SystemConfig::default(), kind.build()).run_stream(&mut trace.stream())
}

/// Builds the `app` trace at `length` accesses and runs `kind` over it.
pub fn run_app(app: AppId, kind: PrefetcherKind, length: usize) -> SimResult {
    let trace = apps::profile(app).scaled(length).build();
    run_trace(&trace, kind)
}

/// Runs a set of prefetchers over one app's trace (trace built once).
///
/// Thin single-threaded wrapper over [`crate::runner::Runner`]; use the
/// runner directly for multi-threaded batches.
pub fn run_app_suite(app: AppId, kinds: &[PrefetcherKind], length: usize) -> Vec<SimResult> {
    let jobs = kinds.iter().map(|&k| crate::runner::Job::grid_cell(app, k, length)).collect();
    crate::runner::Runner::serial().run(jobs).into_results()
}

/// Geometric-mean helper for "average over apps" rows (ratios average
/// multiplicatively).
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Arithmetic mean helper for additive quantities (hit rates, deltas).
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_build_with_matching_labels() {
        let mut labels = std::collections::BTreeSet::new();
        for kind in PrefetcherKind::ALL {
            let pf = kind.build();
            assert!(!pf.name().is_empty());
            assert!(labels.insert(kind.label()), "{kind} is labelled twice");
            assert_eq!(PrefetcherKind::from_label(&kind.label().to_uppercase()), Some(kind));
        }
        assert_eq!(PrefetcherKind::from_label("WAT"), None);
        assert_eq!(PrefetcherKind::Planaria.build().name(), "Planaria");
        assert_eq!(PrefetcherKind::PlanariaSlpIssue.build().name(), "Planaria(SLP-only)");
    }

    #[test]
    fn run_app_produces_consistent_result() {
        let r = run_app(AppId::Cfm, PrefetcherKind::None, 5_000);
        assert_eq!(r.accesses, 5_000);
        assert_eq!(r.workload, "CFM");
        assert_eq!(r.prefetcher, "None");
        assert!(r.amat_cycles > 0.0);
    }

    #[test]
    fn suite_shares_one_trace() {
        let rs =
            run_app_suite(AppId::Hi3, &[PrefetcherKind::None, PrefetcherKind::Planaria], 5_000);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].accesses, rs[1].accesses);
    }

    #[test]
    fn means() {
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((mean([1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 0.0);
        assert_eq!(mean(std::iter::empty()), 0.0);
    }
}
