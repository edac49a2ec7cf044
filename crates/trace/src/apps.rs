//! The ten target applications of the paper's Table 2.
//!
//! The paper evaluates on memory traces of ten top-chart mobile apps
//! captured on a physical phone. Those traces are proprietary, so each app
//! is represented here by a [`WorkloadSpec`] whose component mix reproduces
//! the app's *measured characteristics* from the paper:
//!
//! * every app's footprint-snapshot overlap rate is above 80% (Figure 4),
//!   with per-app levels spread over ≈85–97%;
//! * the learnable-neighbour fraction varies per app (Figure 5);
//! * CFM, QSM, HI3, KO and NBA2 are SLP-dominated while Fort is
//!   TLP-dominated (Figure 9) — encoded as revisited-footprint-heavy vs
//!   one-shot-neighbour-heavy mixes;
//! * NBA2 and PM carry a large irregular share, which is what makes BOP's
//!   aggressive traffic counter-productive on them (Figure 7/8 discussion).
//!
//! Trace lengths default to the paper's Table 2 access counts (millions);
//! use [`WorkloadSpec::scaled`] for faster, shape-preserving runs.

use planaria_common::DeviceId;

use crate::synth::{Envelope, FootprintSpec, NeighborSpec, RandomSpec, StreamSpec, StrideSpec};
use crate::{ComponentSpec, WorkloadSpec};

/// Identifiers for the ten Table 2 applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AppId {
    /// Cross Fire Mobile — first-person shooter.
    Cfm,
    /// Honor of Kings — multiplayer MOBA.
    HoK,
    /// Identity V — asymmetric battle arena.
    IdV,
    /// QQ Speed Mobile — 3D racing game.
    Qsm,
    /// TikTok — short-video sharing app.
    TikT,
    /// Fortnite — multiplayer battle royale.
    Fort,
    /// Honkai Impact 3 — 3D action game.
    Hi3,
    /// Knives Out — multiplayer battle royale.
    Ko,
    /// NBA 2K19 — basketball game.
    Nba2,
    /// PUBG Mobile — multiplayer battle royale.
    Pm,
}

impl AppId {
    /// All ten applications in Table 2 order.
    pub const ALL: [AppId; 10] = [
        AppId::Cfm,
        AppId::HoK,
        AppId::IdV,
        AppId::Qsm,
        AppId::TikT,
        AppId::Fort,
        AppId::Hi3,
        AppId::Ko,
        AppId::Nba2,
        AppId::Pm,
    ];

    /// The figure abbreviation (Table 2 "Abbr." column).
    pub const fn abbr(self) -> &'static str {
        match self {
            AppId::Cfm => "CFM",
            AppId::HoK => "HoK",
            AppId::IdV => "Id-V",
            AppId::Qsm => "QSM",
            AppId::TikT => "TikT",
            AppId::Fort => "Fort",
            AppId::Hi3 => "HI3",
            AppId::Ko => "KO",
            AppId::Nba2 => "NBA2",
            AppId::Pm => "PM",
        }
    }

    /// The app whose [`abbr`](Self::abbr) matches `abbr`, ignoring ASCII
    /// case and surrounding whitespace (`"hok"` and `" HoK"` both name
    /// [`AppId::HoK`]).
    pub fn from_abbr(abbr: &str) -> Option<AppId> {
        AppId::ALL.into_iter().find(|a| a.abbr().eq_ignore_ascii_case(abbr.trim()))
    }

    /// The full application name.
    pub const fn name(self) -> &'static str {
        match self {
            AppId::Cfm => "Cross Fire Mobile",
            AppId::HoK => "Honor of Kings",
            AppId::IdV => "Identity V",
            AppId::Qsm => "QQ Speed Mobile",
            AppId::TikT => "TikTok",
            AppId::Fort => "Fortnite",
            AppId::Hi3 => "Honkai Impact 3",
            AppId::Ko => "Knives Out",
            AppId::Nba2 => "NBA 2K19",
            AppId::Pm => "PUBG Mobile",
        }
    }

    /// Short description (Table 2 "Description" column).
    pub const fn description(self) -> &'static str {
        match self {
            AppId::Cfm => "First-person shooter",
            AppId::HoK => "Multiplayer MOBA",
            AppId::IdV => "Asymmetric battle arena",
            AppId::Qsm => "3D racing mobile game",
            AppId::TikT => "Short video sharing app",
            AppId::Fort => "Multiplayer battle royale",
            AppId::Hi3 => "3D action game",
            AppId::Ko => "Multiplayer battle royale",
            AppId::Nba2 => "Basketball game",
            AppId::Pm => "Multiplayer battle royale",
        }
    }

    /// The paper's trace length in millions of accesses (Table 2).
    pub const fn paper_length_m(self) -> f64 {
        match self {
            AppId::Cfm => 67.48,
            AppId::HoK => 71.37,
            AppId::IdV => 68.27,
            AppId::Qsm => 69.45,
            AppId::TikT => 70.82,
            AppId::Fort => 66.71,
            AppId::Hi3 => 67.65,
            AppId::Ko => 68.00,
            AppId::Nba2 => 67.71,
            AppId::Pm => 67.71,
        }
    }

    /// Per-app memory-boundedness used by the analytic IPC model: the
    /// fraction of execution time that scales with AMAT. The paper's
    /// headline pair (IPC +28.9% from AMAT −24.3%) implies the targeted
    /// mobile apps are heavily memory-bound (intensity ≈ 0.9), consistent
    /// with its premise that memory dominates the phone's user experience.
    pub const fn mem_intensity(self) -> f64 {
        match self {
            AppId::Cfm => 0.90,
            AppId::HoK => 0.92,
            AppId::IdV => 0.90,
            AppId::Qsm => 0.88,
            AppId::TikT => 0.93,
            AppId::Fort => 0.91,
            AppId::Hi3 => 0.90,
            AppId::Ko => 0.91,
            AppId::Nba2 => 0.93,
            AppId::Pm => 0.92,
        }
    }
}

/// Per-app workload-mix parameters (see module docs for the rationale).
struct MixParams {
    footprint_w: f64,
    neighbor_w: f64,
    stream_w: f64,
    stride_w: f64,
    random_w: f64,
    /// Footprint pool size in pages (working-set knob).
    pool_pages: usize,
    /// Snapshot mutation probability (Figure 4 overlap knob).
    mutation_prob: f64,
    /// Blocks swapped per mutation.
    mutation_bits: usize,
    /// Pages per neighbour cluster (Figure 5 knob).
    cluster_span: usize,
    /// Per-page bitmap noise within a cluster.
    noise_bits: usize,
    /// Random-pool pages (irregular working set).
    random_pages: usize,
}

fn mix(app: AppId) -> MixParams {
    use AppId::*;
    match app {
        // SLP-dominated apps: large revisited footprint pools (well beyond
        // the 4 MB SC, so revisits are capacity misses), very stable
        // snapshots, small one-shot-neighbour share.
        Cfm => MixParams {
            footprint_w: 0.70,
            neighbor_w: 0.05,
            stream_w: 0.08,
            stride_w: 0.05,
            random_w: 0.12,
            pool_pages: 6144,
            mutation_prob: 0.30,
            mutation_bits: 2,
            cluster_span: 8,
            noise_bits: 1,
            random_pages: 1 << 14,
        },
        Qsm => MixParams {
            footprint_w: 0.66,
            neighbor_w: 0.06,
            stream_w: 0.10,
            stride_w: 0.06,
            random_w: 0.12,
            pool_pages: 6144,
            mutation_prob: 0.40,
            mutation_bits: 2,
            cluster_span: 8,
            noise_bits: 1,
            random_pages: 1 << 14,
        },
        Hi3 => MixParams {
            footprint_w: 0.72,
            neighbor_w: 0.05,
            stream_w: 0.06,
            stride_w: 0.05,
            random_w: 0.12,
            pool_pages: 6144,
            mutation_prob: 0.25,
            mutation_bits: 2,
            cluster_span: 8,
            noise_bits: 1,
            random_pages: 1 << 14,
        },
        Ko => MixParams {
            footprint_w: 0.62,
            neighbor_w: 0.08,
            stream_w: 0.08,
            stride_w: 0.05,
            random_w: 0.17,
            pool_pages: 8192,
            mutation_prob: 0.50,
            mutation_bits: 2,
            cluster_span: 12,
            noise_bits: 1,
            random_pages: 1 << 14,
        },
        Nba2 => MixParams {
            footprint_w: 0.56,
            neighbor_w: 0.05,
            stream_w: 0.05,
            stride_w: 0.05,
            random_w: 0.29,
            pool_pages: 10240,
            mutation_prob: 0.60,
            mutation_bits: 2,
            cluster_span: 8,
            noise_bits: 1,
            random_pages: 1 << 14,
        },
        // Mixed apps.
        HoK => MixParams {
            footprint_w: 0.62,
            neighbor_w: 0.08,
            stream_w: 0.08,
            stride_w: 0.05,
            random_w: 0.17,
            pool_pages: 8192,
            mutation_prob: 0.50,
            mutation_bits: 2,
            cluster_span: 16,
            noise_bits: 1,
            random_pages: 1 << 14,
        },
        IdV => MixParams {
            footprint_w: 0.57,
            neighbor_w: 0.11,
            stream_w: 0.08,
            stride_w: 0.05,
            random_w: 0.19,
            pool_pages: 8192,
            mutation_prob: 0.60,
            mutation_bits: 2,
            cluster_span: 16,
            noise_bits: 1,
            random_pages: 1 << 14,
        },
        TikT => MixParams {
            footprint_w: 0.64,
            neighbor_w: 0.08,
            stream_w: 0.08,
            stride_w: 0.05,
            random_w: 0.15,
            pool_pages: 10240,
            mutation_prob: 0.80,
            mutation_bits: 2,
            cluster_span: 16,
            noise_bits: 1,
            random_pages: 1 << 14,
        },
        // TLP-dominated: mostly one-shot neighbouring pages, SLP has little
        // history to work with.
        Fort => MixParams {
            footprint_w: 0.15,
            neighbor_w: 0.55,
            stream_w: 0.08,
            stride_w: 0.05,
            random_w: 0.17,
            pool_pages: 4096,
            mutation_prob: 0.90,
            mutation_bits: 3,
            cluster_span: 24,
            noise_bits: 1,
            random_pages: 1 << 14,
        },
        // Irregular-heavy: BOP's extra traffic backfires here (Figure 7/8).
        Pm => MixParams {
            footprint_w: 0.52,
            neighbor_w: 0.10,
            stream_w: 0.04,
            stride_w: 0.05,
            random_w: 0.29,
            pool_pages: 10240,
            mutation_prob: 0.70,
            mutation_bits: 2,
            cluster_span: 12,
            noise_bits: 1,
            random_pages: 1 << 14,
        },
    }
}

/// Builds the [`WorkloadSpec`] for one Table 2 application.
///
/// The spec's default length is the paper's full trace length; call
/// [`WorkloadSpec::scaled`] to shrink it for fast runs.
///
/// # Examples
///
/// ```
/// use planaria_trace::apps::{profile, AppId};
///
/// let spec = profile(AppId::Fort);
/// assert_eq!(spec.abbr, "Fort");
/// let trace = spec.scaled(20_000).build();
/// assert_eq!(trace.len(), 20_000);
/// ```
pub fn profile(app: AppId) -> WorkloadSpec {
    let m = mix(app);
    let seed = 0x504C_414E_u64 // "PLAN"
        .wrapping_mul(31)
        .wrapping_add(app as u64 + 1);
    let length = (app.paper_length_m() * 1_000_000.0) as usize;

    // Every component spans the whole trace: its mean access period is the
    // overall bus period divided by its weight. The overall demand rate
    // (one access per `BUS_PERIOD` cycles) keeps the 4-channel LPDDR4
    // moderately loaded, so extra prefetch traffic shows up as queueing —
    // the mechanism behind the paper's Fort/NBA2/PM observations.
    const BUS_PERIOD: f64 = 18.0;
    let period = |w: f64| BUS_PERIOD / w;
    // Footprint/neighbour visits keep tight intra-visit bursts (timeliness
    // pressure on one-step-lookahead prefetchers); the inter-visit gap
    // absorbs the rest of the component's period budget.
    let fp_intra = 30u64;
    let fp_inter = ((period(m.footprint_w) - fp_intra as f64) * 16.0).max(16.0) as u64;
    let nb_intra = 35u64;
    let nb_inter = ((period(m.neighbor_w) - nb_intra as f64) * 16.0).max(16.0) as u64;

    WorkloadSpec::new(app.name(), app.abbr(), seed, length)
        .with(
            m.footprint_w,
            ComponentSpec::Footprint(FootprintSpec {
                pages: m.pool_pages,
                footprint_blocks: 16,
                mutation_prob: m.mutation_prob,
                mutation_bits: m.mutation_bits,
                intra_gap: fp_intra,
                inter_gap: fp_inter,
                page_spread: 131,
                envelope: Envelope { device: DeviceId::Cpu(0), read_ratio: 0.8 },
            }),
        )
        .with(
            m.neighbor_w,
            ComponentSpec::Neighbor(NeighborSpec {
                cluster_span: m.cluster_span,
                cluster_gap: 40,
                footprint_blocks: 16,
                noise_bits: m.noise_bits,
                revisits: 1,
                page_spacing_max: 24,
                intra_gap: nb_intra,
                inter_gap: nb_inter,
                envelope: Envelope { device: DeviceId::Cpu(2), read_ratio: 0.8 },
            }),
        )
        .with(
            m.stream_w,
            ComponentSpec::Stream(StreamSpec {
                run_blocks: 96,
                gap: period(m.stream_w) as u64,
                run_gap: 4 * period(m.stream_w) as u64,
                envelope: Envelope { device: DeviceId::Gpu, read_ratio: 0.7 },
            }),
        )
        .with(
            m.stride_w,
            ComponentSpec::Stride(StrideSpec {
                stride_blocks: 4,
                run_len: 128,
                gap: period(m.stride_w) as u64,
                run_gap: 4 * period(m.stride_w) as u64,
                envelope: Envelope { device: DeviceId::Dsp, read_ratio: 0.85 },
            }),
        )
        .with(
            m.random_w,
            ComponentSpec::Random(RandomSpec {
                pages: m.random_pages,
                gap: period(m.random_w) as u64,
                page_spread: 131,
                envelope: Envelope { device: DeviceId::Cpu(1), read_ratio: 0.75 },
            }),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_apps_with_table2_metadata() {
        assert_eq!(AppId::ALL.len(), 10);
        for app in AppId::ALL {
            assert!(!app.abbr().is_empty());
            assert!(!app.name().is_empty());
            assert!(!app.description().is_empty());
            assert!(app.paper_length_m() > 60.0 && app.paper_length_m() < 75.0);
            let mi = app.mem_intensity();
            assert!(mi > 0.0 && mi < 1.0);
        }
    }

    #[test]
    fn from_abbr_ignores_case_and_padding() {
        for app in AppId::ALL {
            assert_eq!(AppId::from_abbr(app.abbr()), Some(app));
            assert_eq!(AppId::from_abbr(&format!(" {} ", app.abbr().to_lowercase())), Some(app));
        }
        assert_eq!(AppId::from_abbr("WAT"), None);
        assert_eq!(AppId::from_abbr(""), None);
    }

    #[test]
    fn profiles_build_and_are_deterministic() {
        for app in [AppId::Cfm, AppId::Fort, AppId::TikT] {
            let a = profile(app).scaled(5_000).build();
            let b = profile(app).scaled(5_000).build();
            assert_eq!(a.accesses(), b.accesses(), "{}", app.abbr());
            assert_eq!(a.len(), 5_000);
        }
    }

    #[test]
    fn profiles_differ_across_apps() {
        let a = profile(AppId::Cfm).scaled(3_000).build();
        let b = profile(AppId::HoK).scaled(3_000).build();
        assert_ne!(a.accesses(), b.accesses());
    }

    #[test]
    fn default_lengths_match_table2() {
        assert_eq!(profile(AppId::Cfm).length, 67_480_000);
        assert_eq!(profile(AppId::HoK).length, 71_370_000);
    }

    #[test]
    fn weights_sum_to_one_ish() {
        for app in AppId::ALL {
            let m = mix(app);
            let sum = m.footprint_w + m.neighbor_w + m.stream_w + m.stride_w + m.random_w;
            assert!((sum - 1.0).abs() < 1e-9, "{} weights sum to {sum}", app.abbr());
        }
    }

    #[test]
    fn fort_is_neighbor_dominated() {
        let m = mix(AppId::Fort);
        assert!(m.neighbor_w > m.footprint_w);
        for app in [AppId::Cfm, AppId::Qsm, AppId::Hi3, AppId::Ko, AppId::Nba2] {
            let m = mix(app);
            assert!(m.footprint_w > m.neighbor_w, "{} should be SLP-leaning", app.abbr());
        }
    }
}
