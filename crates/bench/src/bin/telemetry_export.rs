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

use planaria_bench::cli;
use planaria_common::PrefetchOrigin;
use planaria_sim::experiment::PrefetcherKind;
use planaria_sim::{EventKind, MemorySystem, SystemConfig, TelemetryConfig};
use planaria_trace::apps::{self, AppId};

/// One-line usage summary (stderr on `--help` and on argument errors).
const USAGE: &str = "usage: telemetry_export [--app ABBR] [--kind LABEL] [--len N] [--warmup F] \
                     [--capacity N] [--csv]";

/// Reports a usage error and exits 2 (never returns).
fn fail(msg: String) -> ! {
    cli::usage_error(USAGE, msg)
}

struct ExportArgs {
    app: AppId,
    kind: PrefetcherKind,
    len: usize,
    warmup: f64,
    capacity: usize,
    csv: bool,
}

impl ExportArgs {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
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
                    let v = cli::value_of("--app", it.next())?;
                    out.app =
                        AppId::from_abbr(&v).ok_or(format!("unknown app abbreviation {v:?}"))?;
                }
                "--kind" => {
                    let v = cli::value_of("--kind", it.next())?;
                    out.kind = PrefetcherKind::from_label(&v)
                        .ok_or(format!("unknown prefetcher label {v:?}"))?;
                }
                "--len" => out.len = cli::positive_count("--len", it.next())?,
                "--warmup" => {
                    let v = cli::value_of("--warmup", it.next())?;
                    out.warmup = v
                        .parse()
                        .ok()
                        .filter(|w| (0.0..1.0).contains(w))
                        .ok_or(format!("--warmup must be a fraction in [0, 1) (got {v:?})"))?;
                }
                "--capacity" => out.capacity = cli::positive_count("--capacity", it.next())?,
                "--csv" => out.csv = true,
                "--help" | "-h" => {
                    eprintln!("{USAGE}");
                    std::process::exit(0);
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(out)
    }
}

fn main() {
    let args = ExportArgs::parse(std::env::args().skip(1)).unwrap_or_else(|e| fail(e));
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
        report.by_origin(EventKind::PrefetchIssued, PrefetchOrigin::Slp),
        report.by_origin(EventKind::PrefetchIssued, PrefetchOrigin::Tlp),
    );
}
