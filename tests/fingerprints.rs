//! Result oracle: pinned digests of every simulator run shape.
//!
//! Each app's cells are run through the three run entry points and their
//! digests compared against values recorded from a known-good build:
//!
//! * open loop: every [`PrefetcherKind`] at [`ACCESSES`] accesses, digest
//!   = [`SimResult::fingerprint`];
//! * closed loop ([`TrafficConfig::new`]`(2)`): None / BOP / Planaria,
//!   with the [`ClosedLoopReport`] folded into the digest;
//! * warmup 0.25: Planaria on three apps, with the telemetry counters
//!   folded into the digest.
//!
//! Any refactor of the engine must leave every digest unchanged. Served
//! runs are pinned against the closed loop by `tests/serve.rs`. On a
//! mismatch the test prints every cell of the app, so a deliberate
//! behaviour change can re-pin the table from the failure message.

use planaria_sim::experiment::PrefetcherKind;
use planaria_sim::{
    ClosedLoopReport, MemorySystem, SimResult, SystemConfig, TelemetryReport, TrafficConfig,
    TrafficModel,
};
use planaria_trace::apps::{profile, AppId};

/// Accesses per cell.
const ACCESSES: usize = 4_000;

/// Every prefetcher configuration.
const KINDS: [PrefetcherKind; 12] = [
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

/// The kinds run closed loop.
const CLOSED_KINDS: [PrefetcherKind; 3] =
    [PrefetcherKind::None, PrefetcherKind::Bop, PrefetcherKind::Planaria];

/// Leading fraction of accesses the warmup cells exclude.
const WARMUP: f64 = 0.25;

/// Recorded digests, one row per app in [`AppId::ALL`] order: the twelve
/// open-loop [`KINDS`], then the three [`CLOSED_KINDS`].
#[rustfmt::skip]
const PINNED: [[u64; 15]; 10] = [
    // Cfm
    [
        0xa56f3a3a2dea1873, 0xde9d1ed796f7a9d7, 0x74e2dcd354ad967e, 0xac0b014c58ca9803,
        0xe051624f074fba42, 0x419367ee96da437e, 0x879faab5125c707a, 0xe4fb3a1617afe7e8,
        0xb06db053f54ce5d1, 0x3d39fd1298580cc6, 0x6f579cb55c32adc3, 0x64ce2d4eea596855,
        0x91c6ba9a5a44c49c, 0xdbb8abf1ad4ad024, 0x9ec10e9502ec8fd5,
    ],
    // HoK
    [
        0x2fa2bee70041a769, 0xba1abff2e397100b, 0x220955dc238dc35f, 0xe27b96458b1f945f,
        0x9df669832e03daca, 0x35e7d209886f47f6, 0x56b56aecd9f293da, 0x6769cbe48befa5b9,
        0x2dbfcf1c2e90ff55, 0xb6eb8c39952f567f, 0x696c27ed917ceacc, 0xb2e62032fdd790d9,
        0x5a6bf26bd95e0f00, 0xc1068607c22ab425, 0x7b968776e0155b22,
    ],
    // IdV
    [
        0x25f592771d0d53b9, 0xa8ac4c3b71dd92e1, 0x9eee1cf23bc93a9f, 0x7b5889720ef8a4d7,
        0xcbf83d6f6652d170, 0x47a1c1f8940eb027, 0xeca9310fd2777177, 0x37ec1a1226bff88b,
        0xc75c8c16a3c05a0f, 0xc68e94dfe5b70b0d, 0x52adc8ad2bc02082, 0xaba72a42bad288d2,
        0xe2895fe9b65dd73b, 0x45857555028fbda9, 0x9aeb8c246cdef4ec,
    ],
    // Qsm
    [
        0xd457a8d22eeee484, 0xbda7d120e015e81a, 0x8f70acb2c5f74af0, 0x9b90111b56f7bd80,
        0x37d4ab78cebac176, 0xdcefe1f6a93d8f8f, 0xd08e813f16c73869, 0xd13ba4ad82bed51d,
        0x6a1f53006fd3a59e, 0x23663fb840c1e103, 0xf34036148905d9e8, 0x9fcb652b3a1faea2,
        0x1852467682123e52, 0xae08c04d760a7fc4, 0xbf1fa67c61073a14,
    ],
    // TikT
    [
        0x00d34b1fec0807f2, 0x54af17d78c6c7929, 0x0047f1a402d41367, 0x7615b66e6ca52413,
        0x68439e5484fdd80f, 0x5c0a1e55ec1ca706, 0x50f8fd93ad171b09, 0x1385bbaba6ec416c,
        0xefc4a4a6fae15797, 0x33db88f0f755b666, 0x12e58c3c6705a335, 0x9088d64a5badcfcf,
        0xba705b7c6b514260, 0xde50d342521a6dfd, 0x744097cfd70f35e4,
    ],
    // Fort
    [
        0x8aa28e22df5e1eb9, 0xae1080bf59cb58e3, 0xc12089efe25cd64a, 0x2edf4fa7d2143ffb,
        0xba1323efc0453409, 0xc55c4cfc30869c00, 0x307f94c57bd21b6f, 0x05d3dd010070f875,
        0xc5daa5658b9c7113, 0xe73418ac0a4a41e3, 0xdae53466ff9c8c6b, 0xa150f0a53e13e47b,
        0x1d72531a3f504b55, 0xea818b2cd14efeb3, 0x69a0c6b5316d0fdc,
    ],
    // Hi3
    [
        0xecf29a1ebef0f719, 0x86f1b4d11703153d, 0x7ae3d1bd131d1d9f, 0xc36640311f239dc1,
        0x46333d6ac2f0bf40, 0x30d59a1ea40654b5, 0x17973a0c8c581959, 0x96a1f9ca228ddd86,
        0x402ac3e1286f3092, 0x5b73ce8f1ffb6968, 0xafe491aadace59f6, 0x84c81c3ff38d7ee3,
        0x247ee252df3656c0, 0x152c5f45d8fd511e, 0xb77dbd0c8d555689,
    ],
    // Ko
    [
        0x3504a729045661bd, 0xedf3b442c8878582, 0xf86392c77d2edbdc, 0x261d2bd503007f04,
        0xf8adf156e8fbe15e, 0x701403e386edd1c2, 0x9abbfce4015bfe34, 0x070965f343c6cf28,
        0x7b77232ddae044d3, 0x8f92cd10073bb5b6, 0x3de533c0f68a8cf8, 0x7a64a2501dcf8654,
        0x97868cad364eb8aa, 0x4caf42b62adc0a07, 0x23aee6cd6abcad90,
    ],
    // Nba2
    [
        0x9492f190414b062a, 0x3df413a65255e189, 0x93106bc1447cb89e, 0x1ea51129b475ebb5,
        0x1ee7785dd17e332f, 0xbee14db906bd8ca6, 0x702d625dda09105d, 0xdd251e86e2be1f07,
        0xca64f069cd6bffcd, 0x1ace9c23f31b4509, 0x49d3b9d014502463, 0x877979e890211e5b,
        0x0acd8c1723fa54bb, 0x869a84f50a90e3c3, 0x53e0693af06bc948,
    ],
    // Pm
    [
        0x9555b2e3728fdb57, 0x7b6281a54d0b8d2e, 0x658ec7ff0672c8d8, 0x12a042c3deabf2e6,
        0x8d635ea41ecca36f, 0xd5b276d91b99f1da, 0x9a7991ccf0d81ffb, 0x06a453134474e55f,
        0xf69e76789df31ddd, 0xac675004d3a04105, 0xc9331300fc816854, 0x7b527b6f749ee38c,
        0xf961657e6d205fd6, 0xbd3b1fef8a5aa7b1, 0xec7387a536add46e,
    ],
];

/// Planaria with [`WARMUP`], on three apps.
const PINNED_WARM: [(AppId, u64); 3] = [
    (AppId::HoK, 0x766a84720ea6af2c),
    (AppId::Fort, 0x06ed8c053837c37d),
    (AppId::Hi3, 0xa09db1dd27167e83),
];

/// Incremental 64-bit FNV-1a, seeded with a result fingerprint.
struct Fold(u64);

impl Fold {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn all(&mut self, vs: &[u64]) {
        for v in vs {
            self.bytes(&v.to_le_bytes());
        }
    }
}

fn system(kind: PrefetcherKind) -> MemorySystem {
    MemorySystem::new(SystemConfig::default(), kind.build())
}

fn open_digest(app: AppId, kind: PrefetcherKind) -> u64 {
    system(kind).run_stream(&mut profile(app).scaled(ACCESSES).stream()).fingerprint()
}

fn closed_digest(app: AppId, kind: PrefetcherKind) -> u64 {
    let (result, report, _) = TrafficModel::new(TrafficConfig::new(2))
        .run_stream_telemetry(system(kind), &mut profile(app).scaled(ACCESSES).stream());
    fold_closed(&result, &report)
}

fn warm_digest(app: AppId) -> u64 {
    let (result, telemetry) = system(PrefetcherKind::Planaria)
        .run_stream_telemetry(&mut profile(app).scaled(ACCESSES).stream(), WARMUP);
    fold_counters(&result, &telemetry)
}

fn fold_closed(result: &SimResult, report: &ClosedLoopReport) -> u64 {
    let mut h = Fold(result.fingerprint());
    h.all(&[report.window as u64, report.devices.len() as u64]);
    for d in &report.devices {
        h.all(&[d.device.len() as u64]);
        h.bytes(d.device.as_bytes());
        h.all(&[
            d.accesses,
            d.open_loop_finish,
            d.derived_finish,
            d.open_loop_span,
            d.derived_span,
            d.slowdown.to_bits(),
        ]);
    }
    h.all(&[report.unfairness.to_bits()]);
    h.0
}

fn fold_counters(result: &SimResult, telemetry: &TelemetryReport) -> u64 {
    let mut h = Fold(result.fingerprint());
    h.all(&telemetry.counters.words().collect::<Vec<_>>());
    h.0
}

/// Runs every cell of `app` and compares it with the pinned digest.
fn check(app: AppId) {
    let index = AppId::ALL.iter().position(|&a| a == app).expect("app is in AppId::ALL");
    let (open, closed) = PINNED[index].split_at(KINDS.len());
    let mut cells = Vec::new();
    for (&kind, &want) in KINDS.iter().zip(open) {
        cells.push((format!("open {kind}"), open_digest(app, kind), want));
    }
    for (&kind, &want) in CLOSED_KINDS.iter().zip(closed) {
        cells.push((format!("closed {kind}"), closed_digest(app, kind), want));
    }
    for &(_, want) in PINNED_WARM.iter().filter(|(a, _)| *a == app) {
        cells.push(("warmup Planaria".to_string(), warm_digest(app), want));
    }
    if cells.iter().any(|(_, got, want)| got != want) {
        let listing: String = cells
            .iter()
            .map(|(cell, got, want)| {
                let mark = if got == want { "" } else { "  <-- differs" };
                format!("  {cell:<28} got {got:#018x} pinned {want:#018x}{mark}\n")
            })
            .collect();
        panic!("{app:?}: digests differ from the pinned values\n{listing}");
    }
}

macro_rules! per_app {
    ($($test:ident => $app:ident),* $(,)?) => {
        $(
            #[test]
            fn $test() {
                check(AppId::$app);
            }
        )*
    };
}

per_app! {
    cfm => Cfm,
    hok => HoK,
    idv => IdV,
    qsm => Qsm,
    tikt => TikT,
    fort => Fort,
    hi3 => Hi3,
    ko => Ko,
    nba2 => Nba2,
    pm => Pm,
}
