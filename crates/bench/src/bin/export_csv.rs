//! Export the full evaluation grid as CSV (for external plotting).
//!
//! Emits one row per (application × prefetcher) run with every metric of
//! [`planaria_sim::SimResult`], to stdout or `--out <FILE>`.
//!
//! ```sh
//! cargo run --release -p planaria-bench --bin export_csv -- --len 1000000 --out results.csv
//! ```

#![allow(clippy::disallowed_methods)]

use std::io::Write as _;

use planaria_sim::experiment::PrefetcherKind;
use planaria_sim::SimResult;

const KINDS: [PrefetcherKind; 7] = [
    PrefetcherKind::None,
    PrefetcherKind::NextLine,
    PrefetcherKind::Stride,
    PrefetcherKind::Bop,
    PrefetcherKind::Spp,
    PrefetcherKind::SlpOnly,
    PrefetcherKind::Planaria,
];

fn main() {
    // Split off --out before the shared parser sees it.
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = None;
    if let Some(i) = raw.iter().position(|a| a == "--out") {
        raw.remove(i);
        if i < raw.len() {
            out_path = Some(raw.remove(i));
        } else {
            eprintln!("--out needs a value");
            std::process::exit(2);
        }
    }
    let args = planaria_bench::HarnessArgs::parse(raw);

    let grid = args.grid(&KINDS);
    let mut body = String::new();
    body.push_str(SimResult::csv_header());
    body.push('\n');
    for per_app in &grid {
        for r in per_app {
            body.push_str(&r.csv_row());
            body.push('\n');
        }
    }
    match out_path {
        Some(path) => {
            std::fs::write(&path, body).unwrap_or_else(|e| {
                eprintln!("error writing {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("wrote {path}");
        }
        None => {
            std::io::stdout().write_all(body.as_bytes()).expect("stdout");
        }
    }
}
