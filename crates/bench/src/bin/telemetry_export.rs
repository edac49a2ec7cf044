//! Telemetry export — structured decision-trace dump for one cell.
//!
//! Runs a single (application × prefetcher) simulation with event capture
//! enabled ([`planaria_sim::TelemetryConfig::events`]) and writes the
//! decision trace to stdout, JSONL by default or CSV with `--csv`. Every
//! line of the JSONL stream is one self-contained JSON object: a `meta`
//! header, one `event` line per captured decision/lifecycle event, and a
//! final `summary` line with the full counter set (the summary survives
//! ring-buffer truncation, so the Figure 9 SLP/TLP issue split is always
//! exact regardless of `--capacity`).
//!
//! ```sh
//! cargo run --release -p planaria-bench --bin telemetry_export -- \
//!     --app HoK --len 200_000 > hok.jsonl
//! cargo run --release -p planaria-bench --bin telemetry_export -- \
//!     --app Fort --kind "Planaria(TLP)" --csv > fort.csv
//! ```

#![allow(clippy::disallowed_methods)]

use planaria_sim::experiment::PrefetcherKind;
use planaria_sim::{MemorySystem, SystemConfig, TelemetryConfig};
use planaria_trace::apps::{self, AppId};

const ALL_KINDS: [PrefetcherKind; 11] = [
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
];

struct ExportArgs {
    app: AppId,
    kind: PrefetcherKind,
    len: usize,
    warmup: f64,
    capacity: usize,
    csv: bool,
}

impl ExportArgs {
    fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut out = Self {
            app: AppId::HoK,
            kind: PrefetcherKind::Planaria,
            len: 200_000,
            warmup: 0.0,
            capacity: TelemetryConfig::DEFAULT_CAPACITY,
            csv: false,
        };
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--app" => {
                    let v = it.next().expect("--app needs an abbreviation");
                    out.app = AppId::ALL
                        .into_iter()
                        .find(|a| a.abbr().eq_ignore_ascii_case(v.trim()))
                        .unwrap_or_else(|| panic!("unknown app abbreviation {v:?}"));
                }
                "--kind" => {
                    let v = it.next().expect("--kind needs a prefetcher label");
                    out.kind = ALL_KINDS
                        .into_iter()
                        .find(|k| k.label().eq_ignore_ascii_case(v.trim()))
                        .unwrap_or_else(|| panic!("unknown prefetcher kind {v:?}"));
                }
                "--len" => {
                    let v = it.next().expect("--len needs a value");
                    out.len = v.replace('_', "").parse().expect("--len must be an integer");
                }
                "--warmup" => {
                    let v = it.next().expect("--warmup needs a fraction");
                    out.warmup = v.parse().expect("--warmup must be a float");
                }
                "--capacity" => {
                    let v = it.next().expect("--capacity needs a value");
                    out.capacity =
                        v.replace('_', "").parse().expect("--capacity must be an integer");
                }
                "--csv" => out.csv = true,
                "--help" | "-h" => {
                    eprintln!(
                        "usage: [--app ABBR] [--kind LABEL] [--len N] [--warmup F] \
                         [--capacity N] [--csv]"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown argument {other:?} (try --help)"),
            }
        }
        out
    }
}

fn main() {
    let args = ExportArgs::parse(std::env::args().skip(1));
    let mut stream = apps::profile(args.app).scaled(args.len).stream();

    let cfg = SystemConfig {
        telemetry: TelemetryConfig::events_with_capacity(args.capacity),
        ..SystemConfig::default()
    };
    let sys = MemorySystem::new(cfg, args.kind.build());
    let (result, report) = sys.run_stream_telemetry(&mut stream, args.warmup);

    let label = format!("{}/{}", args.app.abbr(), args.kind.label());
    if args.csv {
        print!("{}", report.to_csv());
    } else {
        print!("{}", report.to_jsonl(&label));
    }
    eprintln!(
        "{label}: {} accesses, hit rate {:.3}, {} events captured ({} dropped), \
         issued slp/tlp = {}/{}",
        args.len,
        result.hit_rate,
        report.events.len(),
        report.events_dropped,
        report.issued(planaria_common::PrefetchOrigin::Slp),
        report.issued(planaria_common::PrefetchOrigin::Tlp),
    );
}
