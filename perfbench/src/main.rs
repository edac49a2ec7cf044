//! End-to-end and per-layer benchmark of the Planaria simulator.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload open-planaria --seed 0 --seconds 50 --trace 0 [--report FILE]
//! ```
//!
//! Prints a table of every metric with its unit, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics
//! with `--trace 1`). See `perfbench/README.md`.

#![forbid(unsafe_code)]

mod expected;
mod fleet;
mod layers;
mod open;
mod replay;
mod report;
mod stats;
mod workload;
mod wrap;

use report::Outcome;
use workload::{proc_status_kb, Workload};

const USAGE: &str =
    "usage: planaria-perfbench --workload open-planaria|open-bop-packed|served-fleet \
                     --seed N --seconds N --trace 0|1 [--report FILE]";

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    report: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced, mut report) =
        (None, workload::DEFAULT_SEED, 50, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds == 0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--report" => report = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, traced, report })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let seconds = args.seconds as f64;
    let mut outcome: Outcome = match args.workload {
        Workload::OpenPlanaria | Workload::OpenBopPacked => {
            open::run(args.workload, args.seed, seconds, args.traced)
        }
        Workload::ServedFleet => fleet::run(args.seed, seconds, args.traced),
    };
    if !args.traced {
        let hwm_kb = proc_status_kb("VmHWM").unwrap_or(0);
        outcome.set("peak_rss_mb", hwm_kb as f64 / 1024.0);
        let failed = outcome.failed as f64 / outcome.attempted.max(1) as f64;
        outcome.set("success_rate", 1.0 - failed);
    }

    print_table(&args, &outcome);
    let doc = report::report_doc(args.workload.name(), args.seed, args.traced, &outcome);
    let labels: Vec<&str> = outcome.fingerprints.iter().map(|(l, _)| l.as_str()).collect();
    if let Err(e) = report::validate_report(&doc, &labels) {
        eprintln!("internal error: report fails validation: {e}");
        std::process::exit(1);
    }
    if let Some(path) = &args.report {
        if let Err(e) = std::fs::write(path, &doc) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    let line = report::result_line(args.traced, &outcome);
    if let Err(e) = report::validate_result(&line, args.traced) {
        eprintln!("internal error: result fails validation: {e}");
        std::process::exit(1);
    }
    println!("{line}");
}

/// The human-readable summary printed before the result line.
fn print_table(args: &Args, o: &Outcome) {
    let mode = if args.traced { "traced" } else { "untraced" };
    println!("# {} seed {} ({mode}, {} s)", args.workload.name(), args.seed, args.seconds);
    for d in report::defs(args.traced) {
        let v = o.metrics.get(d.name).copied().unwrap_or(f64::NAN);
        println!("{:<28} {:>16.4} {}", d.name, v, d.unit);
    }
    let error_rate = o.failed as f64 / o.attempted.max(1) as f64;
    println!(
        "{:<28} {:>16.4} fraction ({} of {} operations)",
        "error_rate", error_rate, o.failed, o.attempted
    );
    for (label, fp) in &o.fingerprints {
        println!("fingerprint {label:<12} {}", stats::hex(*fp));
    }
    for (layer, h) in &o.replay_hashes {
        println!("replay-hash {layer:<18} {}", stats::hex(*h));
    }
    for p in &o.problems {
        println!("FAILED {p}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload served-fleet --seed 7 --seconds 10 --trace 1").expect("parses");
        assert_eq!(a.workload, Workload::ServedFleet);
        assert_eq!((a.seed, a.seconds, a.traced), (7, 10, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args("--seed 1").is_err(), "workload required");
        assert!(args("--workload nope").is_err());
        assert!(args("--workload open-planaria --trace 2").is_err());
        assert!(args("--workload open-planaria --seconds 0").is_err());
        assert!(args("--workload open-planaria --seed").is_err());
        assert!(args("--workload open-planaria --bogus 1").is_err());
    }
}
